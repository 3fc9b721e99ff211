(** Delivery-log checker for the CATOCS benchmark.

    Every member is expected to deliver every multicast exactly once. A
    multicast is named by [(sender, seq)], with [seq] counting from 0 per
    sender. The checker is fed each application delivery as it happens and
    convicts, per member-delivery:

    - a duplicate: the member already delivered [(sender, seq)];
    - a FIFO violation: an earlier [seq] of the same sender is still
      undelivered at this member;
    - a causal violation (when created with [~causal:true]): some message
      the sender had delivered when it multicast [(sender, seq)] is still
      undelivered at this member;
    - an unknown message: [seq] outside the planned range;

    and, at {!finish}, every planned member-delivery that never happened,
    plus (with [~total:true]) every position at which a member's delivery
    sequence differs from member 0's.

    Per-member state is touched only by that member's own calls, so under
    a parallel engine where each member runs on one lane the checker needs
    no locking. [~causal:true] reads the sender's state when another member
    delivers; use it only with a single lane. *)

type t

val create :
  members:int -> planned:int array -> causal:bool -> total:bool -> t
(** [planned.(s)] is the number of multicasts sender [s] makes; senders are
    members [0 .. Array.length planned - 1]. *)

val note_send : t -> sender:int -> seq:int -> unit
(** Record the multicast; with [~causal:true] this snapshots the sender's
    delivered prefix as the message's dependencies. Call it just before
    the multicast is issued. *)

val note_deliver : t -> member:int -> sender:int -> seq:int -> unit

type result = {
  expected : int;  (** planned multicasts x members *)
  delivered : int;
  duplicates : int;
  fifo : int;
  causal : int;
  unknown : int;
  missing : int;
  total_order : int;
  failed : int;  (** the sum of the six counts above *)
  fingerprint : string;
      (** hex digest of every member's delivery sequence, in member order *)
}

val finish : t -> result
